"""The runner's ``mp`` backend fails loudly and within a deadline.

Every way a shard worker can go wrong — dying, raising, answering with
garbage, or never answering — must surface in the parent as a
:class:`~repro.util.errors.NetworkError` naming the shard and the
window, never as a hang or an untyped exception.
"""

import dataclasses
import os
import time

import pytest

from repro.net import shardrun
from repro.net.host import Host
from repro.net.headers import ip_to_int
from repro.net.shardrun import ScenarioSpec, run_sharded
from repro.net.topology import Topology
from repro.util.errors import NetworkError


def _pair() -> Topology:
    """Two switches, one host each: two shards, one cut link."""
    topo = Topology()
    topo.add_node("s0")
    topo.add_node("s1")
    topo.add_node("h-a", kind="host")
    topo.add_node("h-b", kind="host")
    topo.add_link("h-a", 1, "s0", 1, latency_s=1e-6)
    topo.add_link("s0", 2, "s1", 1, latency_s=1e-6)
    topo.add_link("s1", 2, "h-b", 1, latency_s=1e-6)
    return topo


def _spec(on_shard_one=None, in_first_window=None) -> ScenarioSpec:
    """Hosts only (no switch behaviour needed); ``on_shard_one`` runs
    inside shard 1's build, ``in_first_window`` as shard 1's first
    event."""

    def build(sim):
        sim.bind(Host("h-a", mac=1, ip=ip_to_int("10.0.0.1")))
        sim.bind(Host("h-b", mac=2, ip=ip_to_int("10.0.1.1")))
        if sim.shard_id == 1:
            if on_shard_one is not None:
                on_shard_one()
            if in_first_window is not None:
                sim.schedule_on("h-b", 0.0, in_first_window)
        return None

    return ScenarioSpec(topology=_pair, build=build)


def _run(spec):
    return run_sharded(spec, shards=2, backend="mp")


class TestFinish:
    @pytest.mark.parametrize("backend", ["inline", "mp"])
    def test_every_shard_harvests_at_the_run_end(self, backend):
        """Harvest-time events (appraisals) carry one timestamp under
        any partitioning: idle shards catch up to the last clock."""
        spec = dataclasses.replace(
            _spec(),
            build=lambda sim: sim.schedule_on("h-b", 5e-6, lambda: None),
            harvest=lambda sim, ctx: sim.clock.now,
        )
        result = run_sharded(spec, shards=2, backend=backend)
        assert result.outputs == [5e-6, 5e-6]


class TestWorkerFailures:
    def test_healthy_run_completes(self):
        result = _run(_spec(in_first_window=lambda: None))
        assert result.shards == 2
        assert result.stats.events_processed == 1

    def test_worker_death(self):
        with pytest.raises(NetworkError, match=r"shard 1 worker exited") as err:
            _run(_spec(on_shard_one=lambda: os._exit(3)))
        assert "window 0" in str(err.value)

    def test_worker_hang(self, monkeypatch):
        monkeypatch.setattr(shardrun, "WORKER_REPLY_DEADLINE_S", 0.5)
        started = time.monotonic()
        with pytest.raises(NetworkError, match=r"shard 1 worker sent nothing") as err:
            _run(_spec(in_first_window=lambda: time.sleep(60)))
        assert "window 1" in str(err.value)
        assert time.monotonic() - started < 30

    def test_worker_exception(self):
        def boom():
            raise ValueError("boom in the build")

        with pytest.raises(NetworkError, match=r"shard 1 worker failed") as err:
            _run(_spec(on_shard_one=boom))
        assert "window 0" in str(err.value)
        assert "boom in the build" in str(err.value)

    @pytest.mark.parametrize(
        "reply,problem",
        [
            (b"\x80\x05garbage", "undecodable"),
            (("ready",), "malformed"),
            ("not a tuple", "malformed"),
        ],
        ids=["bytes", "short-tuple", "wrong-type"],
    )
    def test_garbled_message(self, monkeypatch, reply, problem):
        def garbling_worker(conn, spec, partition, shard_id, opts):
            if isinstance(reply, bytes):
                conn.send_bytes(reply)
            else:
                conn.send(reply)
            conn.close()

        monkeypatch.setattr(shardrun, "_shard_worker", garbling_worker)
        with pytest.raises(NetworkError, match=problem) as err:
            _run(_spec())
        assert "shard 0" in str(err.value)
        assert "window 0" in str(err.value)

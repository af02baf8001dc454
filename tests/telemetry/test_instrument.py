"""Tests for telemetry wiring: defaults, collectors, end-to-end runs."""

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    default_telemetry,
    global_telemetry,
    reset_default,
    use_default,
)
from repro.telemetry.instrument import ENV_VAR


@pytest.fixture(autouse=True)
def _isolated_default():
    """Leave the ambient default exactly as this test found it."""
    previous = use_default(None)
    yield
    use_default(previous)


class TestDefaultResolution:
    def test_default_is_null_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reset_default()
        assert default_telemetry() is NULL_TELEMETRY
        assert not default_telemetry().active

    def test_env_var_enables_global(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "1")
        reset_default()
        assert default_telemetry() is global_telemetry()
        assert default_telemetry().active

    def test_falsey_env_values_stay_null(self, monkeypatch):
        for value in ("0", "false", "off", "no", ""):
            monkeypatch.setenv(ENV_VAR, value)
            reset_default()
            assert default_telemetry() is NULL_TELEMETRY

    def test_use_default_overrides_and_restores(self):
        mine = Telemetry()
        previous = use_default(mine)
        try:
            assert default_telemetry() is mine
        finally:
            use_default(previous)

    def test_global_is_a_singleton(self):
        assert global_telemetry() is global_telemetry()


class TestGatedAccessors:
    def test_inactive_hands_out_nulls(self):
        tel = Telemetry(active=False)
        tel.counter("x").inc()
        tel.gauge("y").set(1)
        tel.histogram("z").observe(1.0)
        with tel.span("w"):
            pass
        assert len(tel.metrics) == 0
        assert len(tel.spans) == 0

    def test_active_registers(self):
        tel = Telemetry()
        tel.counter("x").inc()
        with tel.span("w"):
            pass
        assert len(tel.metrics) == 1
        assert len(tel.spans) == 1

    def test_null_telemetry_is_inert(self):
        NULL_TELEMETRY.counter("x").inc(100)
        assert len(NULL_TELEMETRY.metrics) == 0


class TestSimulatorIntegration:
    def test_explicit_telemetry_collects_at_run_end(self):
        from repro.net.headers import ip_to_int
        from repro.net.host import Host
        from repro.net.simulator import Simulator
        from repro.net.topology import Topology

        topo = Topology()
        topo.add_node("h1", kind="host")
        topo.add_node("h2", kind="host")
        topo.add_link("h1", 1, "h2", 1)
        tel = Telemetry()
        sim = Simulator(topo, telemetry=tel)
        h1 = Host("h1", mac=1, ip=ip_to_int("10.0.0.1"))
        h2 = Host("h2", mac=2, ip=ip_to_int("10.0.0.2"))
        sim.bind(h1)
        sim.bind(h2)
        h1.send_udp(dst_mac=2, dst_ip=h2.ip, src_port=1, dst_port=2)
        sim.run()

        counters = {
            k: v for k, v in
            tel.metrics.snapshot()["counters"].items()
        }
        assert counters["net.link.tx_packets{link=h1:1->h2:1}"] == 1.0
        gauges = tel.metrics.snapshot()["gauges"]
        assert gauges["net.sim.packets_transmitted"] == 1.0
        assert gauges["net.sim.dropped_trace_entries"] == 0.0

    def test_disabled_telemetry_records_nothing(self):
        from repro.net.simulator import Simulator
        from repro.net.topology import linear_topology

        sim = Simulator(linear_topology(1))  # ambient default: null
        assert sim.telemetry is NULL_TELEMETRY
        sim.run()
        assert len(NULL_TELEMETRY.metrics) == 0


class TestUseCaseEndToEnd:
    """Acceptance: a UC1 run's merged telemetry carries per-switch
    evidence counters, appraisal verdict counts and the verify-cache
    hit rate — without the use case knowing telemetry exists."""

    def test_uc1_run_is_fully_observed(self):
        from repro.core.usecases import run_config_assurance
        from repro.telemetry import snapshot

        result = run_config_assurance(packets=4, swap_at=2)
        assert result.first_rejection is not None

        doc = snapshot(result.sharded.telemetry)
        gauges = doc["metrics"]["gauges"]
        # Per-switch evidence-block gauges for both chain switches.
        for switch in ("s1", "s2"):
            assert gauges[f"pera.measurements_taken{{switch={switch}}}"] > 0
            assert gauges[f"pera.records_created{{switch={switch}}}"] > 0
            assert gauges[f"pera.signatures_produced{{switch={switch}}}"] > 0
            assert f"pera.cache.hit_rate{{switch={switch}}}" in gauges
        # The shared memoized-verification cache is summarized too.
        assert "evidence.verify_cache.hit_rate" in gauges
        # Appraisal verdicts were counted with their outcomes.
        counters = doc["metrics"]["counters"]
        accepted = sum(
            v for k, v in counters.items()
            if k.startswith("core.path_verdicts{accepted=True")
        )
        rejected = sum(
            v for k, v in counters.items()
            if k.startswith("core.path_verdicts{accepted=False")
        )
        assert accepted > 0 and rejected > 0

    def test_uc1_chain_spans_every_stage(self):
        """Spans are wall-clock data that stay with each run's event
        loop (the merged telemetry carries metrics and the journal);
        a UC1 chain on the ambient telemetry records them per switch."""
        from repro.core.compiler import compile_policy_for_path
        from repro.core.policies import ap1_bank_path_attestation
        from repro.core.usecases import _appraiser_for, _pera_chain
        from repro.core.wire import encode_compiled_policy
        from repro.net.headers import RaShimHeader
        from repro.pera.config import CompositionMode, EvidenceConfig
        from repro.pisa.programs import firewall_program
        from repro.telemetry import snapshot

        tel = Telemetry()
        previous = use_default(tel)
        try:
            program = firewall_program()
            sim, src, dst, switches = _pera_chain(
                2, EvidenceConfig(composition=CompositionMode.CHAINED),
                programs=[program] * 2,
            )
            policy = compile_policy_for_path(
                ap1_bank_path_attestation(),
                path=["h-src", "s1", "s2", "h-dst"],
                bindings={"client": "h-dst"},
                composition=CompositionMode.CHAINED,
            )
            src.send_udp(
                dst_mac=dst.mac, dst_ip=dst.ip, src_port=1000,
                dst_port=2000, payload=b"probe",
                ra_shim=RaShimHeader(
                    flags=RaShimHeader.FLAG_POLICY,
                    body=encode_compiled_policy(policy),
                ),
            )
            sim.run()
            appraiser = _appraiser_for(switches, [program] * 2)
            appraiser.appraise_packet(dst.received_packets[0], compiled=policy)
        finally:
            use_default(previous)

        doc = snapshot(tel)
        # Pipeline stages were spanned per switch track.
        span_names = {s["name"] for s in doc["spans"]}
        assert {"pisa.parse", "pisa.stage", "pisa.deparse",
                "pera.attest", "pera.sign", "core.appraise"} <= span_names
        tracks = {s["track"] for s in doc["spans"]}
        assert {"s1", "s2"} <= tracks

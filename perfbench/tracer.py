"""Per-layer self-time tracer installed from outside the program.

Each traced layer is a list of public entry points. :class:`LayerTracer`
replaces every entry point, at the attribute its caller resolves, with
a wrapper that counts calls and times them. A layer's self time is the
wrapped calls' duration minus the time spent in wrapped calls nested
inside them, so the self times of all layers add up to the wall time
the outermost wrapped calls cover. Nothing in the program changes: the
wrappers pass arguments and results through untouched.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: ``layer -> [(module, attribute path)]``. The attribute path is where
#: the caller looks the function up: a class attribute for methods, the
#: calling module's global for functions imported by name.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "net.shardrun": [("repro.net.shardrun", "ShardedRunner.run")],
    "net.sharding.window": [("repro.net.sharding", "ShardSimulator.run_window")],
    "net.sharding.sync": [
        ("repro.net.sharding", "ShardSimulator.next_event_time"),
        ("repro.net.sharding", "ShardSimulator.take_outbox"),
        ("repro.net.sharding", "ShardSimulator.inject"),
    ],
    "net.simulator.transmit": [("repro.net.sharding", "ShardSimulator.transmit")],
    "net.qdisc": [("repro.net.qdisc", "QdiscEngine.offer")],
    "net.routing": [
        ("repro.net.routing", "EcmpSelector.pick"),
        ("repro.net.routing", "FlowletTable.pick"),
        ("repro.net.routing", "stable_flow_hash"),
    ],
    "core.fabric": [("repro.core.fabric", "MultipathFabricSwitch.handle_packet")],
    "net.host": [
        ("repro.net.host", "Host.send_udp"),
        ("repro.net.host", "Host.send"),
    ],
    "workload": [("repro.workload.flows", "FlowSink.handle_packet")],
    "faults": [("repro.faults.injector", "FaultInjector.filter_transmit")],
    "pisa": [("repro.pisa.pipeline", "Pipeline.process")],
    "pera": [
        ("repro.core.raswitch", "NetworkAwarePeraSwitch.process_context"),
        ("repro.pera.epoch", "EpochBatcher.seal"),
    ],
    "crypto": [
        # PERA signs through KeyPair.sign -> SigningKey.sign.
        ("repro.crypto.ed25519", "SigningKey.sign"),
        # Key derivation (a fixed-base multiplication), at set-up.
        ("repro.crypto.ed25519", "SigningKey.verify_key"),
        ("repro.crypto.ed25519", "VerifyKey.verify"),
        # SignatureCache calls ``ed25519.verify_batch`` on the module.
        ("repro.crypto.ed25519", "verify_batch"),
    ],
    "evidence.verify": [
        ("repro.evidence.verify", "SignatureCache.verify"),
        ("repro.evidence.verify", "SignatureCache.verify_batch"),
    ],
    "evidence.codec": [
        ("repro.core.appraisal", "decode_record_stack"),
        ("repro.pera.switch", "decode_record_stack"),
    ],
    "core.appraisal": [
        ("repro.core.appraisal", "PathAppraiser.appraise_packet"),
        ("repro.core.fabric", "verify_record_batch"),
    ],
    "telemetry": [
        ("repro.telemetry.timeseries", "FlightRecorder.advance_to"),
        ("repro.core.fabric", "evaluate_health"),
    ],
}

#: Scenario callables the campaign hands to the runner, by the layer
#: they belong to; ``campaign.py`` wraps them on the spec itself.
SPEC_LAYERS = {"harvest": "core.fabric", "drain": "pera"}


class LayerTracer:
    """Call counts and self times per layer, for one process."""

    def __init__(self) -> None:
        # Each frame is [start, time covered by wrapped children]; the
        # bottom frame is a sentinel that absorbs top-level durations.
        self._stack: List[List[float]] = [[0.0, 0.0]]
        #: ``layer -> [calls, self seconds]`` for the current phase.
        self.totals: Dict[str, List[float]] = {
            layer: [0, 0.0] for layer in LAYERS
        }
        #: ``"module:attribute" -> [calls]`` for the current phase.
        self.target_calls: Dict[str, List[int]] = {}

    def wrap(self, fn: Callable, layer: str, target: str) -> Callable:
        stack = self._stack
        acc = self.totals[layer]
        calls = self.target_calls.setdefault(target, [0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                stack[-1][1] += duration
                acc[0] += 1
                acc[1] += duration - frame[1]
                calls[0] += 1

        return traced

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` (import first)."""
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, name = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                if not callable(original):
                    raise TypeError(f"{module_name}.{path} is not a function")
                setattr(
                    owner, name,
                    self.wrap(original, layer, f"{module_name}:{path}"),
                )

    def restart(self) -> Dict[str, List[float]]:
        """Start a new accounting phase now; returns the phase just ended.

        Frames still open (the runner call that spans set-up and run)
        are re-based to now, so their earlier time stays in the old
        phase.
        """
        now = perf_counter()
        for frame in self._stack[1:]:
            frame[0] = now
            frame[1] = 0.0
        ended = {layer: list(acc) for layer, acc in self.totals.items()}
        for acc in self.totals.values():
            acc[0] = 0
            acc[1] = 0.0
        for calls in self.target_calls.values():
            calls[0] = 0
        return ended

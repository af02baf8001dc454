#!/usr/bin/env python3
"""UC1 — the Athens affair, replayed with and without attestation.

The paper opens with the 2004-05 "Athens Affair": rogue software on
programmable network equipment silently duplicated the prime
minister's calls to attacker-controlled phones, and "the operators of
the network were unaware that their equipment had been subverted".

This example re-stages the attack on a simulated network. Mid-run, an
attacker who has won P4Runtime mastership swaps the vetted firewall
for a byte-compatible rogue variant with a hidden intercept table.
Without RA nothing changes observably; with per-packet attestation the
very first post-swap packet fails appraisal.

Run:  python examples/athens_affair.py
"""

from repro.core.usecases import run_config_assurance
from repro.pera.sampling import SamplingMode, SamplingSpec


def main() -> None:
    print("=== honest run (no swap) ===")
    honest = run_config_assurance(packets=10, swap_at=None)
    print(f"packets appraised : {len(honest.verdicts)}")
    print(f"rejections        : {sum(not v.accepted for v in honest.verdicts)}")
    print(f"calls exfiltrated : {honest.exfiltrated}")

    # The attack run is traced: its audit journal explains, hop by hop,
    # WHY the first rogue packet was rejected — the observability the
    # Athens operators lacked.
    print("\n=== attack run, per-packet attestation ===")
    attack = run_config_assurance(packets=20, swap_at=8)
    print(f"rogue program installed before packet {attack.swap_at}")
    print(f"first rejected packet            : {attack.first_rejection}")
    print(f"detection delay (packets)        : {attack.detection_delay}")
    print(f"calls exfiltrated before detection: {attack.exfiltrated}")
    assert attack.detection_delay == 0

    rejected = next(v for v in attack.verdicts if not v.accepted)
    print("\n--- why the first rejected packet failed ---")
    print(rejected.explain(attack.sharded.telemetry))

    print("\n=== attack run, 1-in-4 sampled attestation ===")
    sampled = run_config_assurance(
        packets=20, swap_at=8,
        sampling=SamplingSpec(mode=SamplingMode.ONE_IN_N, n=4),
    )
    print(f"first rejected packet     : {sampled.first_rejection}")
    print(f"detection delay (packets) : {sampled.detection_delay}")
    print("\nSampling trades detection latency for per-packet cost —")
    print("exactly the Fig. 4 Detail/sampling axis of the paper.")


if __name__ == "__main__":
    main()

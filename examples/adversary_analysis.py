#!/usr/bin/env python3
"""§4.2 — why sequencing matters: the corrupt/repair adversary.

Reproduces the paper's banking example analysis. Expression (1)
measures the browser monitor and the extensions *in parallel*; an
adversary with userspace control cheats it by scheduling: scan the
extensions with a corrupt monitor, repair the monitor, then let the
antivirus look. Expression (2) sequences and signs the measurements,
forcing any successful adversary to corrupt *between two protocol-
ordered events* — a strictly stronger ("recent") capability.

The analysis below enumerates adversary strategies mechanically, then
the same attack is executed concretely on the Copland VM.

Run:  python examples/adversary_analysis.py
"""

from repro.analysis.trust import hardening_report
from repro.copland.adversary import ProtocolModel
from repro.copland.parser import parse_phrase

EXPR1 = "@ks [av us bmon] -~- @us [bmon us exts]"

MODEL = ProtocolModel(
    residence={"av": "ks", "bmon": "us", "exts": "us"},
    adversary_places=frozenset({"us"}),  # userspace only
    malicious=frozenset({"exts"}),  # the malware must stay installed
)


def main() -> None:
    print("banking example, expression (1):")
    print(f"  {EXPR1}")
    report = hardening_report(parse_phrase(EXPR1), MODEL, at_place="bank")
    print()
    print(report.describe())
    assert report.improved

    print("\nConcrete VM execution of the attack on (1):")
    from repro.copland.vm import CoplandVM, Place
    from repro.evidence import ParallelEvidence
    from repro.crypto.hashing import digest

    vm = CoplandVM()
    vm.register(Place("bank"))
    ks = vm.register(Place("ks"))
    us = vm.register(Place("us"))
    ks.install_component("av", b"antivirus")
    us.install_component("bmon", b"bmon-good")
    us.install_component("exts", b"extensions-good")
    # The adversary corrupts the extensions (malware) and the monitor.
    us.corrupt_component("exts", b"MALWARE")
    us.corrupt_component("bmon", b"bmon-evil")
    # Its schedule: C2 with the lying monitor, repair, then C1.
    c2 = vm.execute(parse_phrase("@us [bmon us exts]"), "bank")
    us.repair_component("bmon")
    c1 = vm.execute(parse_phrase("@ks [av us bmon]"), "bank")
    evidence = ParallelEvidence(left=c1, right=c2)
    golden_exts = digest(b"extensions-good", domain="component-measurement")
    golden_bmon = digest(b"bmon-good", domain="component-measurement")
    exts_reads_clean = c2.value == golden_exts
    bmon_reads_clean = c1.value == golden_bmon
    print(f"  bmon measurement reports clean : {bmon_reads_clean}")
    print(f"  exts measurement reports clean : {exts_reads_clean}")
    print(f"  malware still installed        : "
          f"{us.components['exts'] == b'MALWARE'}")
    assert exts_reads_clean and bmon_reads_clean
    print("  -> the bank accepts while the malware persists.")


if __name__ == "__main__":
    main()

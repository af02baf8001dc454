"""The unified evidence substrate (paper-wide).

Every layer of the system trades in *evidence*: Copland phrases produce
it (:mod:`repro.copland`), PERA switches create/inspect/compose it
(:mod:`repro.pera`), RA principals appraise it (:mod:`repro.ra`), and
the network-aware compiler routes it (:mod:`repro.core`). This package
is the one canonical model they all share:

- :mod:`repro.evidence.nodes` — content-addressed evidence node types
  mirroring Copland's evidence grammar (empty, nonce, measurement,
  signature, hash, sequence, parallel) plus the hop-composed record of
  an attesting PERA switch. Wire form and SHA-256 digest are computed
  once per node and cached.
- :mod:`repro.evidence.codec` — the single TLV wire codec (encode is
  the nodes' cached :attr:`~repro.evidence.nodes.Evidence.wire`;
  decode lives here), including the shim-body framing shared with
  compiled policies.
- :mod:`repro.evidence.verify` — memoized signature verification keyed
  by (key id, message digest, signature).

:mod:`repro.copland` re-exports the node types, and
:mod:`repro.pera.records` remains a thin view over this package.
"""

from repro.evidence.nodes import (
    Evidence,
    EmptyEvidence,
    NonceEvidence,
    MeasurementEvidence,
    SignedEvidence,
    HashEvidence,
    SequenceEvidence,
    ParallelEvidence,
    HopEvidence,
    BatchedHopEvidence,
    epoch_root_payload,
)
from repro.evidence.codec import (
    BATCHED_RECORD_TLV_TYPE,
    POLICY_TLV_TYPE,
    RECORD_TLV_TYPE,
    LazyNode,
    decode_batched_hop_body,
    decode_hop_body,
    decode_node,
    decode_record_stack,
    encode_batched_hop_body,
    encode_hop_body,
    encode_node,
    encode_record_stack,
    iter_decode_nodes,
    iter_lazy_nodes,
)
from repro.evidence.verify import (
    BatchVerifyItem,
    SignatureCache,
    VerifyCacheStats,
    registry_verify,
    registry_verify_batch,
    shared_cache,
)


def hops_to_evidence(hops) -> Evidence:
    """Compose hop records into one canonical evidence tree.

    A traffic path's accumulated records form a sequential composition
    (each hop extends its predecessors), so in-band stacks, out-of-band
    streams and redacted disclosures of the same hops all reduce to the
    same tree — and therefore the same wire bytes and content digest.
    """
    hops = list(hops)
    if not hops:
        return EmptyEvidence()
    tree: Evidence = hops[0]
    for hop in hops[1:]:
        tree = SequenceEvidence(left=tree, right=hop)
    return tree


__all__ = [
    "Evidence",
    "EmptyEvidence",
    "NonceEvidence",
    "MeasurementEvidence",
    "SignedEvidence",
    "HashEvidence",
    "SequenceEvidence",
    "ParallelEvidence",
    "HopEvidence",
    "BatchedHopEvidence",
    "epoch_root_payload",
    "POLICY_TLV_TYPE",
    "RECORD_TLV_TYPE",
    "BATCHED_RECORD_TLV_TYPE",
    "encode_node",
    "decode_node",
    "iter_decode_nodes",
    "encode_hop_body",
    "decode_hop_body",
    "encode_batched_hop_body",
    "decode_batched_hop_body",
    "encode_record_stack",
    "decode_record_stack",
    "LazyNode",
    "iter_lazy_nodes",
    "hops_to_evidence",
    "BatchVerifyItem",
    "SignatureCache",
    "VerifyCacheStats",
    "registry_verify",
    "registry_verify_batch",
    "shared_cache",
]

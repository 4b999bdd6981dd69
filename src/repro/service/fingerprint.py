"""Canonical design fingerprints — the certificate cache's content
address.

The cache must satisfy two soundness obligations:

* **No false hits.**  Two designs may share a fingerprint only if they
  are structurally isomorphic circuits *verified under the same
  interface claim* (operand widths, signedness, specification).
  Isomorphic circuits compute the same function, and the verdict of
  the pipeline is a function of (circuit function, interface claim)
  alone — so replaying a cached verdict for an isomorphic resubmission
  is exactly as sound as re-running the pipeline.  Structural isomorphism is decided by the
  Merkle canonicalization in :func:`repro.aig.ops.canonical_signature`:
  internal variable numbering and AND pin order are hashed away, while
  input positions, output order/complements and the declared widths are
  preserved (operand bit weights are positional — permuting *inputs*
  legitimately changes the function being claimed).

* **No missed invalidation.**  Any change that can change the verdict —
  a fault-injected gate, a different width split, an unsigned vs signed
  claim, an adder vs multiplier claim — must change the fingerprint.
  All of these alter either the canonical graph or the interface
  header, both of which feed the hash.

Functional-but-not-structural equivalence (say, an array and a Wallace
multiplier of the same size) yields *different* fingerprints: a cache
miss, never an unsound hit.
"""

from __future__ import annotations

import hashlib

from repro.aig.ops import canonical_signature

#: Bump when the canonicalization changes incompatibly; part of the
#: hash preimage so stale cache entries can never alias new keys.
FINGERPRINT_VERSION = 1


def resolve_widths(aig, width_a=None, width_b=None):
    """The (width_a, width_b) split the pipeline would use.

    Mirrors :meth:`repro.core.pipeline.Pipeline.run`: an unspecified
    split defaults to half the inputs each way.  Raises ``ValueError``
    on an odd input count with no explicit split (the pipeline raises
    its own typed error before fingerprinting in that case).
    """
    if width_a is None:
        if aig.num_inputs % 2:
            raise ValueError(
                "cannot infer operand widths from an odd input count")
        width_a = aig.num_inputs // 2
    if width_b is None:
        width_b = aig.num_inputs - width_a
    return width_a, width_b


def design_fingerprint(aig, width_a=None, width_b=None, signed=False,
                       spec="multiplier"):
    """Hex sha256 fingerprint of (canonical circuit, interface claim).

    O(nodes) — one topological Merkle pass plus one hash; this is the
    "O(hash)" a resubmitted or isomorphic design costs instead of a
    full verification run.  ``spec`` names the claimed function; the
    multiplier, the default, adds nothing to the preimage, so its
    fingerprints predate the field.
    """
    width_a, width_b = resolve_widths(aig, width_a, width_b)
    num_inputs, num_outputs, _wa, _wb, signed_flag, outputs = \
        canonical_signature(aig, width_a=width_a, width_b=width_b,
                            signed=signed)
    digest = hashlib.sha256()
    header = (f"v{FINGERPRINT_VERSION};i{num_inputs};o{num_outputs};"
              f"a{width_a};b{width_b};s{int(signed_flag)};")
    if spec != "multiplier":
        header += f"p{spec};"
    digest.update(header.encode("ascii"))
    for label in outputs:
        digest.update(label)
    return digest.hexdigest()


def config_fingerprint(aig, config):
    """The cache key of verifying ``aig`` under a
    :class:`~repro.core.pipeline.VerifyConfig`: the design fingerprint
    under the config's interface claim and specification."""
    return design_fingerprint(aig, config.width_a, config.width_b,
                              signed=config.signed, spec=config.spec)

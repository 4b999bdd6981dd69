"""End-to-end parity: the verifier driven by the frozenset oracle.

Runs full verifications twice — once on the production bitmask kernel,
once with every vanishing-rule reduction routed through the independent
frozenset oracle — and demands bit-identical verdicts, remainders and
per-step ``SP_i`` traces (the Fig. 5 curves).  Because the dynamic
engine's accept/reject decisions feed off exact polynomial sizes, even a
one-monomial divergence anywhere in the pipeline derails the trace and
fails this test.
"""

import pytest

from repro.core.vanishing import VanishingRuleSet
from repro.core.verifier import verify_multiplier
from repro.genmul import generate_multiplier
from repro.genmul.faults import inject_visible_fault
from repro.opt.scripts import optimize
from tests.poly.frozenset_oracle import OracleRuleSet, fs_to_mask, mask_to_fs


def oracle_reduce_expansion_into(self, out, items, rep_items, masks=None,
                                 strip=0, start=0, limit=None, tick=None):
    """Drop-in replacement computing every normal form via frozensets.

    Mirrors the kernel's bookkeeping exactly: untriggered products keep
    zero entries (they count toward the attempt-size cap), reduced terms
    pop on cancellation, and the walk over ``items`` ticks, stops past
    ``limit`` and returns the resume index as the kernel does.  The
    kernel's scan-skipping ``masks`` are ignored: the oracle scans every
    product.  Returns ``(index, products)`` to :func:`counting_oracle`.
    """
    oracle = getattr(self, "_oracle", None)
    if oracle is None or getattr(self, "_oracle_count", -1) != self._count:
        oracle = OracleRuleSet(self)
        self._oracle = oracle
        self._oracle_count = self._count
    trigger = self._trigger_mask
    products = 0
    for k in range(start, len(items)):
        if tick is not None and not k & 63:
            tick()
        base, coeff_base = items[k]
        base ^= strip
        for rep_mono, rep_coeff in rep_items:
            products += 1
            mono = base | rep_mono
            coeff = coeff_base * rep_coeff
            if not (mono & trigger):
                out[mono] = out.get(mono, 0) + coeff
                continue
            local = {}
            oracle.reduce(mask_to_fs(mono), 1, local)
            for mono_fs, factor in local.items():
                mask = fs_to_mask(mono_fs)
                value = out.get(mask, 0) + coeff * factor
                if value:
                    out[mask] = value
                else:
                    out.pop(mask, None)
        if limit is not None and len(out) > limit:
            return k + 1, products
    return len(items), products


def counting_oracle(counts):
    """:func:`oracle_reduce_expansion_into` as the reducer's entry
    point, counting in ``counts`` the products it normalizes and those
    of calls that strip a substituted variable (the engine's per-output
    substitutions)."""
    def reduce_expansion_into(self, out, items, rep_items, masks=None,
                              strip=0, *args, **kwargs):
        index, products = oracle_reduce_expansion_into(
            self, out, items, rep_items, masks, strip, *args, **kwargs)
        counts["products"] += products
        if strip:
            counts["substituted"] += products
        return index
    return reduce_expansion_into


def fingerprint(aig, method):
    result = verify_multiplier(aig, method=method, record_trace=True,
                               monomial_budget=200_000)
    remainder = (result.remainder.to_string()
                 if result.remainder is not None else None)
    return {"status": result.status, "remainder": remainder,
            "sizes": result.sizes()}


def fingerprints_with_and_without_oracle(aig, method):
    """Fingerprints of a kernel run and an oracle run; fails unless the
    oracle run really normalized its products through the oracle."""
    reference = fingerprint(aig, method)
    counts = {"products": 0, "substituted": 0}
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(VanishingRuleSet, "reduce_expansion_into",
                        counting_oracle(counts))
        with_oracle = fingerprint(aig, method)
    assert counts["substituted"] > 0, \
        f"no substitution was normalized by the oracle: {counts}"
    return reference, with_oracle


CASES = [
    ("SP-AR-RC", 4, "none"),
    ("SP-DT-LF", 4, "none"),
    ("SP-DT-LF", 4, "dc2"),
    ("SP-WT-CL", 4, "resyn3"),
    ("BP-AR-RC", 4, "none"),
]


@pytest.mark.parametrize("architecture,width,optimization", CASES)
@pytest.mark.parametrize("method", ["dyposub", "static"])
def test_verify_parity(architecture, width, optimization, method):
    aig = optimize(generate_multiplier(architecture, width), optimization)
    reference, with_oracle = fingerprints_with_and_without_oracle(aig, method)
    assert with_oracle["status"] == reference["status"]
    assert with_oracle["remainder"] == reference["remainder"]
    assert with_oracle["sizes"] == reference["sizes"]
    assert reference["status"] == "correct"


def test_buggy_verdict_parity():
    aig = inject_visible_fault(generate_multiplier("SP-AR-RC", 4),
                               kind="gate-type", seed=0)
    reference, with_oracle = fingerprints_with_and_without_oracle(
        aig, "dyposub")
    assert with_oracle["status"] == reference["status"] == "buggy"
    assert with_oracle["sizes"] == reference["sizes"]
